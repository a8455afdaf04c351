import json
import struct
import warnings
import zipfile

import numpy as np
import pytest

from qgen import cli
from qgen.autodiff import replaced_on_success
from qgen.beam import generate as beam_generate
from qgen.cli import main
from qgen.config import ConfigError, ModelConfig, rng_stream
from qgen.corpus import build_vocabulary, load_corpus, stopword_set
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_roundtrip_is_semantically_identical(self, tmp_path):
        cfg = ModelConfig(r_h=7, r_l=50, dropout=0.2, seed=42)
        path = tmp_path / "c.json"
        cfg.save(path)
        assert ModelConfig.load(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ConfigError, match="nonsense"):
            ModelConfig.load(path)

    def test_violation_names_field(self):
        with pytest.raises(ConfigError, match="r_h"):
            ModelConfig(r_h=3000, r_l=2000).validate()
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig(dropout=1.5).validate()
        with pytest.raises(ConfigError, match="tau"):
            ModelConfig(tau=0.0).validate()


class TestMakeToyData:
    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, "make-toy-data", "--n", "32", "--seed", "7", "--out", str(a))[0] == 0
        assert run_cli(capsys, "make-toy-data", "--n", "32", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_example_is_schema_valid(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        run_cli(capsys, "make-toy-data", "--n", "1", "--seed", "0", "--out", str(path))
        corpus = load_corpus(path)
        assert len(corpus) == 1

    def test_every_example_has_a_clue_labelable_token(self):
        corpus = make_toy_data(32, 7)
        vocab = build_vocabulary(corpus)
        labeled, _ = label_corpus(corpus, vocab, stopword_set(), 8, 2000)
        for ex in labeled:
            assert any(ex.passage_clue_label)

    def test_zero_examples_is_reported_as_json(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "make-toy-data", "--n", "0", "--out",
                                 str(tmp_path / "none.jsonl"))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "ConfigError"
        assert "n >= 1" in report["message"]

    def test_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "make-toy-data", "--n", "8", "--seed", "1", "--out", str(a))
        run_cli(capsys, "make-toy-data", "--n", "8", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestIngestAndStats:
    @pytest.fixture
    def data(self, tmp_path, capsys):
        path = tmp_path / "toy.jsonl"
        run_cli(capsys, "make-toy-data", "--n", "12", "--seed", "3", "--out", str(path))
        return path

    def test_ingest_reports_counts(self, data, capsys):
        code, out, _ = run_cli(capsys, "ingest", "--data", str(data))
        assert code == 0
        assert json.loads(out)["examples"] == 12

    def test_ingest_writes_labels(self, data, tmp_path, capsys):
        labeled = tmp_path / "labeled.jsonl"
        code, out, _ = run_cli(capsys, "ingest", "--data", str(data),
                               "--labeled-out", str(labeled), "--set", "r_h=5")
        assert code == 0
        lines = [json.loads(l) for l in labeled.read_text().splitlines()]
        assert len(lines) == 12
        assert {"question_copy_label", "passage_clue_label", "answer_bio"} <= set(lines[0])

    def test_ingest_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n')
        code, _, err = run_cli(capsys, "ingest", "--data", str(bad))
        assert code == 1
        assert "IngestError" in err

    def test_boolean_answer_span_is_reported_as_json(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        records = [json.loads(line) for line in data.read_text().splitlines()]
        records[1]["answer_span"] = [False, True]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        code, out, err = run_cli(capsys, "ingest", "--data", str(data))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "IngestError"
        assert "line 2" in report["message"] and "answer_span" in report["message"]

    def test_stats_summary_and_csvs(self, data, tmp_path, capsys):
        out_dir = tmp_path / "stats"
        code, out, _ = run_cli(capsys, "stats", "--data", str(data), "--set", "r_h=5",
                               "--out-dir", str(out_dir))
        assert code == 0
        summary = json.loads(out)
        assert summary["examples"] == 12
        assert summary["ranks"]["all"]["count"] > 0
        assert (out_dir / "rank_histogram.csv").exists()
        header = (out_dir / "rank_histogram.csv").read_text().splitlines()[0]
        assert header == "population,bucket,count"
        assert (out_dir / "distance_histogram.csv").exists()
        assert (out_dir / "path_labels.csv").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    data = tmp / "toy.jsonl"
    config = tmp / "config.json"
    out_dir = tmp / "run"
    main(["make-toy-data", "--n", "6", "--seed", "4", "--out", str(data)])
    # no precision: the run takes the default
    config.write_text(json.dumps(dict(r_h=5, r_l=40, word_dim=16, tier_dim=4, feat_dim=4,
                                      enc_hidden=12, dec_hidden=12, attn_dim=8, gcn_layers=2,
                                      gcn_hidden=8, dropout=0.0, lr=0.003, batch=3, epochs=2,
                                      ema=0.9, seed=5, beam=3, max_len=10)))
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out_dir)])
    assert code == 0
    return tmp, data, config, out_dir


class TestTrainGenerateEvaluate:
    def test_train_emits_checkpoints_and_log(self, pipeline):
        _, _, _, out_dir = pipeline
        assert (out_dir / "model.npz").exists()
        assert (out_dir / "model_ema.npz").exists()
        log = [json.loads(l) for l in (out_dir / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2]
        assert all("total" in r for r in log)

    def test_config_without_precision_trains_float32(self, pipeline):
        _, _, config, out_dir = pipeline
        assert "precision" not in json.loads(config.read_text())
        for ckpt in ("model.npz", "model_ema.npz"):
            meta = json.loads(zipfile.ZipFile(out_dir / ckpt).read("meta.json"))
            assert meta["config"]["precision"] == "float32" and meta["dtype"] == "<f4", ckpt
        loaded = QgModel.load(out_dir / "model.npz")
        assert all(t.data.dtype == np.float32 for t in loaded.params.tensors())

    def test_generate_writes_predictions(self, pipeline, capsys):
        tmp, data, _, out_dir = pipeline
        pred = tmp / "pred.jsonl"
        code, out, _ = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model_ema.npz"),
                               "--data", str(data), "--out", str(pred), "--beam-width", "2")
        assert code == 0
        rows = [json.loads(l) for l in pred.read_text().splitlines()]
        assert len(rows) == 6
        assert {"id", "prediction", "score"} <= set(rows[0])

    def test_clues_out_reuses_the_beams_clue_pass(self, pipeline, capsys, monkeypatch):
        """One clue pass per example, and the same bytes as a run in which
        the beam computes its own clue pass and --clues-out another."""
        tmp, data, _, out_dir = pipeline
        calls = []
        predict_clues = QgModel.predict_clues

        def counted(self, *args, **kwargs):
            calls.append(1)
            return predict_clues(self, *args, **kwargs)
        monkeypatch.setattr(QgModel, "predict_clues", counted)

        def run(name):
            calls.clear()
            pred, clues = tmp / f"pred_{name}.jsonl", tmp / f"clues_{name}.jsonl"
            code, _, _ = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model.npz"),
                                 "--data", str(data), "--out", str(pred),
                                 "--clues-out", str(clues), "--beam-width", "3")
            assert code == 0
            return pred.read_bytes(), clues.read_bytes(), len(calls)

        shared = run("shared")
        monkeypatch.setattr(cli, "beam_generate",
                            lambda model, ex, clue, **kwargs: beam_generate(model, ex, **kwargs))
        separate = run("separate")
        examples = len(load_corpus(data))
        assert shared[2] == examples and separate[2] == 2 * examples
        assert shared[:2] == separate[:2]

    @pytest.mark.parametrize("unasked", ["without_key", "empty"])
    def test_generation_ignores_the_question(self, pipeline, capsys, unasked):
        """Passages whose questions are gone, or empty, get the same
        predictions, byte for byte."""
        tmp, data, _, out_dir = pipeline
        records = [json.loads(line) for line in data.read_text().splitlines()]
        for record in records:
            if unasked == "empty":
                record["question_tokens"] = []
            else:
                del record["question_tokens"]
        unasked_data = tmp / f"unasked_{unasked}.jsonl"
        unasked_data.write_text("".join(json.dumps(r) + "\n" for r in records))
        predictions = []
        for name, source in (("asked", data), (unasked, unasked_data)):
            pred = tmp / f"pred_{name}.jsonl"
            code, _, _ = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model.npz"),
                                 "--data", str(source), "--out", str(pred), "--beam-width", "3")
            assert code == 0
            predictions.append(pred.read_bytes())
        assert predictions[0] == predictions[1]

    def test_generate_missing_checkpoint_fails(self, pipeline, capsys):
        tmp, data, _, _ = pipeline
        code, _, err = run_cli(capsys, "generate", "--checkpoint", str(tmp / "nope.npz"),
                               "--data", str(data), "--out", str(tmp / "x.jsonl"))
        assert code == 1
        assert "checkpoint" in err

    def test_evaluate_predictions(self, pipeline, capsys):
        tmp, data, _, out_dir = pipeline
        pred = tmp / "pred2.jsonl"
        run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model_ema.npz"),
                "--data", str(data), "--out", str(pred), "--beam-width", "1")
        code, out, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 0
        report = json.loads(out)
        assert report["pairs"] == 6
        assert 0 <= report["bleu4"] <= 100
        assert "ROUGE-L" in err  # human-readable table on stderr

    def test_evaluate_perfect_predictions_score_100(self, pipeline, capsys):
        tmp, data, _, _ = pipeline
        refs = load_corpus(data)
        pred = tmp / "gold.jsonl"
        with open(pred, "w") as fh:
            for ex in refs:
                fh.write(json.dumps({"id": ex.id, "prediction": " ".join(ex.question),
                                     "score": 0.0}) + "\n")
        code, out, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 0
        report = json.loads(out)
        assert report["bleu4"] == pytest.approx(100.0)
        assert report["rougeL"] == pytest.approx(100.0)

    @pytest.mark.parametrize("flag, value, field", [
        ("--beam-width", "0", "beam_width"), ("--beam-width", "-3", "beam_width"),
        ("--max-len", "0", "max_len")])
    def test_generate_rejects_bad_width_or_length(self, pipeline, capsys, flag, value, field):
        tmp, data, _, out_dir = pipeline
        code, out, err = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model.npz"),
                                 "--data", str(data), "--out", str(tmp / "bad.jsonl"),
                                 flag, value)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "ConfigError"
        assert report["message"] == f"{field} must be a positive integer, got {value}"

    @pytest.mark.parametrize("flag, value", [("--beam-width", "-3"), ("--max-len", "0")])
    def test_rejected_run_keeps_existing_predictions(self, pipeline, capsys, flag, value):
        tmp, data, _, out_dir = pipeline
        runs = tmp / "kept"
        runs.mkdir(exist_ok=True)
        pred, clues = runs / "pred.jsonl", runs / "clues.jsonl"
        pred.write_bytes(b'{"id": "earlier", "prediction": "what ?", "score": -1.0}\n')
        clues.write_bytes(b'{"id": "earlier", "clues": []}\n')
        before = {p.name: p.read_bytes() for p in runs.iterdir()}
        code, out, err = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model.npz"),
                                 "--data", str(data), "--out", str(pred),
                                 "--clues-out", str(clues), flag, value)
        assert code == 1 and out == "" and json.loads(err)["error"] == "ConfigError"
        assert {p.name: p.read_bytes() for p in runs.iterdir()} == before

    def test_same_file_for_predictions_and_clues_is_refused(self, pipeline, capsys):
        """Both outputs would go through one temporary file: exit 1 with one
        JSON error before the model loads, and the earlier file unchanged."""
        tmp, data, _, out_dir = pipeline
        runs = tmp / "same"
        (runs / "sub").mkdir(parents=True, exist_ok=True)
        pred = runs / "pred.jsonl"
        pred.write_bytes(b'{"id": "earlier", "prediction": "what ?", "score": -1.0}\n')
        code, out, err = run_cli(capsys, "generate", "--checkpoint", str(out_dir / "model.npz"),
                                 "--data", str(data), "--out", str(pred),
                                 "--clues-out", str(runs / "sub" / ".." / "pred.jsonl"))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "CliError" and str(pred) in report["message"]
        assert sorted(p.name for p in runs.iterdir()) == ["pred.jsonl", "sub"]
        assert pred.read_bytes() == b'{"id": "earlier", "prediction": "what ?", "score": -1.0}\n'

    def test_interrupted_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "pred.jsonl"
        target.write_bytes(b"earlier\n")
        with pytest.raises(RuntimeError):
            with replaced_on_success(target) as tmp, open(tmp, "w", encoding="utf-8") as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]
        assert target.read_bytes() == b"earlier\n"
        with replaced_on_success(target) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write("new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]
        assert target.read_bytes() == b"new\n"

    @pytest.mark.parametrize("defect", ["not_json", "no_id", "no_prediction", "not_object"])
    def test_evaluate_rejects_malformed_prediction_line(self, pipeline, capsys, defect):
        tmp, data, _, _ = pipeline
        good = {"id": load_corpus(data)[0].id, "prediction": "what ?"}
        line = {"not_json": "{not json",
                "no_id": json.dumps({"prediction": "what ?"}),
                "no_prediction": json.dumps({"id": good["id"]}),
                "not_object": json.dumps([good["id"], "what ?"])}[defect]
        pred = tmp / "malformed.jsonl"
        pred.write_text(json.dumps(good) + "\n\n" + line + "\n")
        code, out, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "CliError"
        assert "line 3" in report["message"]

    def test_evaluate_rejects_repeated_prediction_id(self, pipeline, capsys):
        """A repeated id would be scored twice: exit 1 with one JSON error
        that names the repeating line."""
        tmp, data, _, _ = pipeline
        ids = [ex.id for ex in load_corpus(data)]
        pred = tmp / "repeated.jsonl"
        pred.write_text("".join(json.dumps({"id": i, "prediction": "what ?"}) + "\n"
                                for i in ids[:2] + ids[:1]))
        code, out, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "CliError"
        assert f"{pred} line 3: id {ids[0]!r} repeats the id of line 1" == report["message"]

    def test_evaluate_rejects_reference_with_repeated_id(self, pipeline, capsys):
        """References are looked up by id, so a repeated one would pair a
        prediction with whichever record came last."""
        tmp, data, _, _ = pipeline
        lines = data.read_text().splitlines(keepends=True)
        ref, pred = tmp / "repeated_ref.jsonl", tmp / "one_pred.jsonl"
        ref.write_text("".join(lines + lines[1:2]))
        pred.write_text(json.dumps({"id": json.loads(lines[1])["id"], "prediction": "what ?"}))
        code, out, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(ref))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "IngestError"
        assert f"line {len(lines) + 1} " in report["message"]
        assert "repeats the id of line 2" in report["message"]

    def test_unknown_prediction_id_fails(self, pipeline, capsys):
        tmp, data, _, _ = pipeline
        pred = tmp / "badpred.jsonl"
        pred.write_text(json.dumps({"id": "ghost", "prediction": "what ?", "score": 0}) + "\n")
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 1
        assert "ghost" in err


def _read_checkpoint(path):
    """The meta and the data bytes of a checkpoint."""
    with zipfile.ZipFile(path) as zf:
        return json.loads(zf.read("meta.json")), zf.read("data")


def _write_checkpoint(path, meta, data):
    """An uncompressed checkpoint zip laid out like `ParamStore.save`, each
    member optional; a str meta is written as it is."""
    with zipfile.ZipFile(path, "w") as zf:
        if meta is not None:
            zf.writestr("meta.json", meta if isinstance(meta, str) else json.dumps(meta))
        if data is not None:
            zf.writestr("data", data)


def _flip_stored_byte(path, entry):
    """Flip a byte in the middle of an uncompressed member's data, so that
    reading the member fails its CRC check."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(entry)
    raw = bytearray(path.read_bytes())
    # the data follows a 30-byte local header, the name and the extra field
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _stack_gru_weights(meta, data):
    """The checkpoint as it was laid out when each GRU's weights were one
    parameter: `<prefix>.w`, [w_x | w_c | [w_zr; w_cand]], where `w_x` is."""
    dtype, offset, arrays = np.dtype(meta["dtype"]), 0, {}
    for name, shape in meta["layout"]:
        arrays[name] = np.frombuffer(data, dtype, int(np.prod(shape)), offset).reshape(shape)
        offset += arrays[name].nbytes
    layout, members = [], []
    for name, array in arrays.items():
        prefix, _, part = name.rpartition(".")
        if part in ("w_c", "w_zr", "w_cand"):
            continue
        if part == "w_x":
            inputs = [array] + [arrays[n] for n in [f"{prefix}.w_c"] if n in arrays]
            state = np.concatenate([arrays[f"{prefix}.w_zr"], arrays[f"{prefix}.w_cand"]])
            name, array = f"{prefix}.w", np.concatenate(inputs + [state], axis=1)
        layout.append([name, list(array.shape)])
        members.append(array.tobytes())
    return dict(meta, layout=layout), b"".join(members)


# an ill-typed meta.json value, by defect: the key it replaces, dotted inside
# feature_vocab, and the value
_ILL_TYPED_META = {
    "vocab_words": ("vocab_words", 5),
    "vocab_word_numbers": ("vocab_words", ["the", 7]),
    "reduced_words": ("reduced_words", None),
    "reduced_word_numbers": ("reduced_words", ["what", 2.5]),
    "feature_vocab": ("feature_vocab", []),
    "pos": ("feature_vocab.pos", 5),
    "config": ("config", []),
}


def _corrupt(meta, data, defect):
    """Apply one checkpoint defect to a read checkpoint; returns the meta and
    the data to write, None for none.  A layout defect resizes the data to
    match, so that the layout check fails and not the length check."""
    itemsize = np.dtype(meta["dtype"]).itemsize
    first, first_shape = meta["layout"][0]
    first_bytes = int(np.prod(first_shape)) * itemsize

    def holder(key):
        """The object that holds `key`, and the key's last part."""
        outer, _, last = key.rpartition(".")
        return (meta[outer] if outer else meta), last

    if defect == "no_meta":
        return None, data
    if defect == "no_data":
        return meta, None
    if defect == "meta_not_json":
        return json.dumps(meta)[:-1], data
    if defect == "meta_not_object":
        return json.dumps([meta]), data
    if defect.startswith("meta_without_"):
        obj, key = holder(defect[len("meta_without_"):])
        del obj[key]
    if defect.startswith("ill_typed_"):
        key, value = _ILL_TYPED_META[defect[len("ill_typed_"):]]
        obj, key = holder(key)
        obj[key] = value
    if defect == "wrong_version":
        meta["format_version"] = 99
    elif defect == "format_2":   # as format 2 wrote it: no dtype, no layout, no data member
        meta["format_version"] = 2
        del meta["dtype"], meta["layout"]
        data = None
    elif defect == "layout_not_pairs":
        meta["layout"] = [[first]]
    elif defect == "missing_param":
        del meta["layout"][0]
        data = data[first_bytes:]
    elif defect == "extra_param":
        meta["layout"].append(["bogus.w", [2]])
        data += bytes(2 * itemsize)
    elif defect == "misshaped_param":
        meta["layout"][0][1] = [3]
        data = bytes(3 * itemsize) + data[first_bytes:]
    elif defect == "non_float_dtype":
        meta["dtype"] = "<i8"
    elif defect == "data_one_short":
        data = data[:-itemsize]
    elif defect == "data_one_long":
        data += bytes(itemsize)
    elif defect == "data_not_whole":
        data = data[:-1]
    return meta, data


class TestCheckpointErrors:
    def _generate(self, capsys, pipeline, checkpoint):
        tmp, data, _, _ = pipeline
        code, out, err = run_cli(capsys, "generate", "--checkpoint", str(checkpoint),
                                 "--data", str(data), "--out", str(tmp / "never.jsonl"))
        assert code == 1 and out == ""
        return json.loads(err)

    def test_not_a_zip(self, pipeline, capsys, tmp_path):
        bad = tmp_path / "model.npz"
        bad.write_text("not a checkpoint\n")
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        assert "not a zip" in report["message"]

    @pytest.mark.parametrize("defect, words", [
        ("no_meta", "meta.json"),
        ("no_data", "no data member"),
        ("wrong_version", "format version 99"),
        ("format_2", "format version 2"),
        ("layout_not_pairs", "'layout' is not a list of [name, shape] pairs"),
        ("missing_param", "missing parameter"),
        ("extra_param", "bogus.w"),
        ("misshaped_param", "shape mismatch"),
        ("meta_not_json", "not JSON"),
        ("meta_not_object", "not a JSON object"),
        ("meta_without_config", "'config'"),
        ("meta_without_vocab_words", "'vocab_words'"),
        ("meta_without_reduced_words", "'reduced_words'"),
        ("meta_without_feature_vocab", "'feature_vocab'"),
        ("ill_typed_vocab_words", "'vocab_words' is not a JSON array"),
        ("ill_typed_reduced_words", "'reduced_words' is not a JSON array"),
        ("ill_typed_feature_vocab", "'feature_vocab' is not a JSON object"),
        ("ill_typed_config", "'config' is not a JSON object"),
        ("meta_without_feature_vocab.pos", "'feature_vocab.pos' is not a JSON array of strings"),
        ("ill_typed_pos", "'feature_vocab.pos' is not a JSON array of strings"),
        ("ill_typed_vocab_word_numbers", "'vocab_words' is not a JSON array of strings"),
        ("ill_typed_reduced_word_numbers", "'reduced_words' is not a JSON array of strings"),
        ("non_float_dtype", "data of dtype '<i8'"),
        ("data_one_short", "data member of the"),
        ("data_one_long", "data member of the"),
        ("data_not_whole", "data member of the"),
        ("data_bad_crc", "data member that is damaged"),
        ("meta_bad_crc", "meta.json that is damaged or not JSON"),
    ])
    def test_defect_is_reported_as_json(self, pipeline, capsys, tmp_path, defect, words):
        bad = tmp_path / "model.npz"
        _write_checkpoint(bad, *_corrupt(*_read_checkpoint(pipeline[3] / "model_ema.npz"), defect))
        if defect.endswith("_bad_crc"):
            _flip_stored_byte(bad, "meta.json" if defect == "meta_bad_crc" else "data")
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        assert str(bad) in report["message"]
        assert words in report["message"]

    def test_stacked_gru_layout_is_refused(self, pipeline, capsys, tmp_path):
        """A checkpoint of the layout that held each GRU's weights as one
        `<prefix>.w` has no converter: it is refused, naming the file and
        the parameters on each side."""
        bad = tmp_path / "model.npz"
        _write_checkpoint(bad, *_stack_gru_weights(*_read_checkpoint(pipeline[3] / "model_ema.npz")))
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        message = report["message"]
        assert str(bad) in message
        missing = message[message.index("missing parameters"):message.index("unknown parameters")]
        unknown = message[message.index("unknown parameters"):message.index("shape mismatch")]
        assert "'enc.fwd.w_x'" in missing and "'dec.gru.w_c'" in missing
        assert "'enc.fwd.w'" in unknown and "'dec.gru.w'" in unknown

    def test_flipped_byte_in_a_saved_checkpoint(self, pipeline, capsys, tmp_path):
        """`ParamStore.save` stores its members, so a damaged byte reaches
        the reader's CRC check as it lies in the file."""
        bad = tmp_path / "model.npz"
        bad.write_bytes((pipeline[3] / "model.npz").read_bytes())
        _flip_stored_byte(bad, "data")
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        assert f"{bad} has a data member that is damaged" in report["message"]


class TestCliErrors:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_violation_exits_nonzero(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        code, _, err = run_cli(capsys, "ingest", "--data", str(data), "--set", "r_h=9999")
        assert code == 1
        assert "r_h" in err

    @pytest.mark.parametrize("key, raw", [
        ("dropout", "abc"), ("lr", "null"), ("tau", '"x"'), ("beta1", "[1]"),
        ("lambda_gen", "abc"), ("ema", "abc"), ("batch", "true"), ("epochs", "true"),
        ("seed", "true")])
    @pytest.mark.parametrize("source", ["set", "config"])
    def test_ill_typed_value_is_reported_as_json(self, tmp_path, capsys, source, key, raw):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        capsys.readouterr()
        if source == "set":
            given = ["--set", f"{key}={raw}"]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({key: raw if raw == "abc" else json.loads(raw)}))
            given = ["--config", str(config)]
        code, out, err = run_cli(capsys, "train", "--data", str(data),
                                 "--out", str(tmp_path / "run"), *given)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "ConfigError"
        assert key in report["message"]

    def test_bad_word_vector_value_is_reported_as_json(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("the 0.5 0.25\nof 0.5 abc\n")
        capsys.readouterr()
        code, out, err = run_cli(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                                 "--vectors", str(vectors), "--set", "word_dim=2")
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "ConfigError"
        assert f"{vectors} line 2" in report["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999", "1e39",
                                       "-3.5e38"])
    def test_non_finite_word_vector_value_is_reported_as_json(self, tmp_path, capsys, value):
        """`float` parses these, and the first loss would be the first to
        fail on them: 1e39 and -3.5e38 are finite in float64 but not in the
        default float32 word table."""
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"the 0.5 0.25\nof 0.5 {value}\n")
        capsys.readouterr()
        code, out, err = run_cli(capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                                 "--vectors", str(vectors), "--set", "word_dim=2")
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "ConfigError"
        assert report["message"] == (f"word-vector file {vectors} line 2: a value is not finite "
                                     f"in float32")
        assert not (tmp_path / "run").exists()   # a failed run leaves no --out behind

    def test_unknown_set_key_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        code, _, err = run_cli(capsys, "ingest", "--data", str(data), "--set", "bogus=1")
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("case, error", [
        ("ingest_not_utf8", "IngestError"), ("evaluate_not_utf8", "CliError"),
        ("config_not_utf8", "ConfigError"), ("vectors_not_utf8", "ConfigError"),
        ("ingest_directory", "IsADirectoryError"), ("config_directory", "IsADirectoryError"),
        ("train_out_is_a_file", "FileExistsError"), ("stats_out_is_a_file", "FileExistsError")])
    def test_unusable_path_is_reported_as_json(self, tmp_path, capsys, case, error):
        """A file that is not UTF-8, a directory where a file is read, or a
        file where a directory is made: exit status 1 and a JSON error that
        names the path, not a traceback."""
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        capsys.readouterr()
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe not text\n")
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"the 0.5 0.25\n\xff 0.5 0.25\n")
        regular = tmp_path / "regular"
        regular.write_text("a file\n")
        train = ["train", "--data", str(data), "--set", "epochs=1", "--set", "word_dim=2"]
        # each case's arguments and a part of the message that names the path
        argv, named = {
            "ingest_not_utf8": (["ingest", "--data", str(binary)], f"{binary} line 1"),
            "evaluate_not_utf8": (["evaluate", "--pred", str(binary), "--ref", str(data)],
                                  f"{binary} line 1"),
            "config_not_utf8": (["ingest", "--data", str(data), "--config", str(binary)],
                                str(binary)),
            "vectors_not_utf8": (train + ["--out", str(tmp_path / "run"), "--vectors",
                                          str(vectors)], f"{vectors} line 2"),
            "ingest_directory": (["ingest", "--data", str(tmp_path)], str(tmp_path)),
            "config_directory": (["ingest", "--data", str(data), "--config", str(tmp_path)],
                                 str(tmp_path)),
            "train_out_is_a_file": (train + ["--out", str(regular)], str(regular)),
            "stats_out_is_a_file": (["stats", "--data", str(data), "--out-dir", str(regular)],
                                    str(regular)),
        }[case]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == error
        assert named in report["message"]


def _one_json_error(code, out, err):
    """The report of a run that failed as it should: exit status 1, nothing
    on standard output and one JSON object on standard error."""
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    return json.loads(err)


# a malformed record, by check: how line 2's record is broken, and the
# message of the check it fails
_MALFORMED_RECORDS = {
    "token_not_object": (lambda r: r["passage_tokens"].__setitem__(0, "Erin"),
                         "passage token 0 is not an object"),
    "token_missing_field": (lambda r: r["passage_tokens"][1].pop("pos"),
                            "passage token 1 missing field 'pos'"),
    "token_head_not_integer": (lambda r: r["passage_tokens"][0].__setitem__("head", "0"),
                               "passage token 0 field 'head' must be an integer"),
    "token_text_not_string": (lambda r: r["passage_tokens"][0].__setitem__("text", 7),
                              "passage token 0 field 'text' must be str"),
    "token_text_special": (lambda r: r["passage_tokens"][2].__setitem__("text", "<EOS>"),
                           "passage token 2 text '<EOS>' is a special token"),
    "head_out_of_range": (lambda r: r["passage_tokens"][0].__setitem__("head", 99),
                          "token 0 head 99 out of range"),
    "id_not_string": (lambda r: r.__setitem__("id", 7), "id must be a string"),
    "empty_passage": (lambda r: r.__setitem__("passage_tokens", []),
                      "passage_tokens must be a non-empty array"),
    "empty_question": (lambda r: r.__setitem__("question_tokens", []),
                       "question_tokens must be a non-empty array of strings"),
}


class TestMalformedInput:
    """Each of these checks fails a run with exit status 1 and one JSON
    error, not a traceback."""

    @pytest.fixture
    def records(self, tmp_path):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        return data, [json.loads(line) for line in data.read_text().splitlines()]

    @pytest.mark.parametrize("case", sorted(_MALFORMED_RECORDS) + ["invalid_json"])
    def test_malformed_record_is_reported_as_json(self, records, capsys, case):
        data, rows = records
        lines = [json.dumps(r) for r in rows]
        if case == "invalid_json":
            lines[1], named = lines[1][:-1], "line 2: invalid JSON"
        else:
            breaks, message = _MALFORMED_RECORDS[case]
            breaks(rows[1])
            lines[1], named = json.dumps(rows[1]), f": {message}"
        data.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        report = _one_json_error(*run_cli(capsys, "ingest", "--data", str(data)))
        assert report["error"] == "IngestError"
        assert f"1 malformed record(s) in {data}" in report["message"]
        assert "line 2" in report["message"] and named in report["message"]

    def test_ill_typed_question_in_generation_input_is_reported_as_json(self, pipeline, capsys):
        tmp, data, _, out_dir = pipeline
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        rows[2]["question_tokens"] = "what"
        unasked = tmp / "question_not_array.jsonl"
        unasked.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        report = _one_json_error(*run_cli(
            capsys, "generate", "--checkpoint", str(out_dir / "model.npz"), "--data",
            str(unasked), "--out", str(tmp / "never.jsonl")))
        assert report["error"] == "IngestError"
        assert "line 3" in report["message"]
        assert "question_tokens, when present, must be an array of strings" in report["message"]
        assert not (tmp / "never.jsonl").exists()

    @pytest.mark.parametrize("setting, message", [
        ("lr=0", "lr must be positive, got 0"),
        ("beta1=1", "beta1 must be in (0, 1), got 1"),
        ("lambda_gen=-1", "lambda_gen must be non-negative"),
        ("precision=float16", "precision must be 'float32' or 'float64', got 'float16'")])
    def test_out_of_range_setting_is_reported_as_json(self, records, capsys, setting, message):
        data, _ = records
        capsys.readouterr()
        report = _one_json_error(*run_cli(capsys, "ingest", "--data", str(data),
                                          "--set", setting))
        assert report == {"error": "ConfigError", "message": message}

    def test_config_file_that_is_not_an_object_is_reported_as_json(self, records, tmp_path,
                                                                   capsys):
        data, _ = records
        config = tmp_path / "c.json"
        config.write_text("[1, 2]\n")
        capsys.readouterr()
        report = _one_json_error(*run_cli(capsys, "ingest", "--data", str(data),
                                          "--config", str(config)))
        assert report == {"error": "ConfigError",
                          "message": f"config file {config} must hold a flat JSON object"}

    def test_unknown_rng_stream_is_refused(self):
        with pytest.raises(ConfigError, match="unknown rng stream 'bogus'"):
            rng_stream(0, "bogus")

    def test_diverging_run_is_reported_as_json(self, records, tmp_path, capsys):
        """A learning rate of 1e30 overflows the weights after the first
        step, so the second batch's loss is not finite.  The overflow
        warnings on the way are the run's, not the check's."""
        data, _ = records
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = _one_json_error(*run_cli(
                capsys, "train", "--data", str(data), "--out", str(tmp_path / "run"),
                "--set", "lr=1e30", "--set", "batch=1", "--set", "epochs=1",
                "--set", "word_dim=4", "--set", "enc_hidden=4", "--set", "dec_hidden=4",
                "--set", "attn_dim=4", "--set", "gcn_hidden=4"))
        assert report["error"] == "TrainingError"
        assert report["message"].startswith("non-finite loss at epoch 1 batch 1 (example ")
        assert not (tmp_path / "run").exists()
