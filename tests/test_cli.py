import io
import json
import struct
import zipfile

import numpy as np
import pytest

from qgen import cli
from qgen.autodiff import ParamStore
from qgen.beam import generate as beam_generate
from qgen.cli import _replaced_on_success, main
from qgen.config import ConfigError, ModelConfig
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
    ModelConfig(r_h=5, r_l=40, word_dim=16, tier_dim=4, feat_dim=4,
                enc_hidden=12, dec_hidden=12, attn_dim=8, gcn_layers=2,
                gcn_hidden=8, dropout=0.0, lr=0.003, batch=3, epochs=2,
                ema=0.9, seed=5, beam=3, max_len=10).save(config)
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

    def test_interrupted_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "pred.jsonl"
        target.write_bytes(b"earlier\n")
        with pytest.raises(RuntimeError):
            with _replaced_on_success(target) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]
        assert target.read_bytes() == b"earlier\n"
        with _replaced_on_success(target) as fh:
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

    def test_unknown_prediction_id_fails(self, pipeline, capsys):
        tmp, data, _, _ = pipeline
        pred = tmp / "badpred.jsonl"
        pred.write_text(json.dumps({"id": "ghost", "prediction": "what ?", "score": 0}) + "\n")
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--ref", str(data))
        assert code == 1
        assert "ghost" in err


def _npy_bytes(a) -> bytes:
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def _write_checkpoint(path, arrays, meta):
    """An uncompressed checkpoint zip laid out like `ParamStore.save`,
    meta.json optional; a str meta and bytes arrays are written as they are."""
    with zipfile.ZipFile(path, "w") as zf:
        if meta is not None:
            zf.writestr("meta.json", meta if isinstance(meta, str) else json.dumps(meta))
        for name, a in arrays.items():
            zf.writestr(f"params/{name}.npy", a if isinstance(a, bytes) else _npy_bytes(a))


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


# a meta.json value of the wrong JSON type, by key
_ILL_TYPED_META = {"vocab_words": 5, "reduced_words": None, "feature_vocab": [], "config": []}


def _corrupt(arrays, meta, defect):
    """Apply one checkpoint defect to a read checkpoint; returns the meta to
    write, None for none."""
    first = next(iter(arrays))
    if defect == "no_meta":
        return None
    if defect == "meta_not_json":
        return json.dumps(meta)[:-1]
    if defect == "meta_not_object":
        return json.dumps([meta])
    if defect.startswith("meta_without_"):
        del meta[defect[len("meta_without_"):]]
    if defect.startswith("ill_typed_"):
        key = defect[len("ill_typed_"):]
        meta[key] = _ILL_TYPED_META[key]
    if defect == "wrong_version":
        meta["format_version"] = 99
    elif defect == "missing_param":
        del arrays[first]
    elif defect == "extra_param":
        arrays["bogus.w"] = np.zeros(2)
    elif defect == "misshaped_param":
        arrays[first] = np.zeros(3)
    elif defect == "garbage_npy":
        arrays[first] = b"not an array"
    elif defect == "truncated_npy":
        raw = _npy_bytes(arrays[first])
        arrays[first] = raw[:len(raw) // 2]
    elif defect == "non_float_param":
        arrays["dec.gate.b"] = np.array("abc")
    elif defect == "object_npy":
        arrays[first] = np.array([{"a": 1}], dtype=object)
    return meta


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
        ("wrong_version", "format version 99"),
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
        ("non_float_param", "'dec.gate.b' has dtype <U3"),
        ("garbage_npy", "params/embed.word.npy that is damaged or not a .npy array"),
        ("truncated_npy", "params/embed.word.npy that is damaged or not a .npy array"),
        ("object_npy", "params/embed.word.npy that is damaged or not a .npy array"),
        ("npy_bad_crc", "params/embed.word.npy that is damaged or not a .npy array"),
        ("meta_bad_crc", "meta.json that is damaged or not JSON"),
    ])
    def test_defect_is_reported_as_json(self, pipeline, capsys, tmp_path, defect, words):
        arrays, meta = ParamStore.read(pipeline[3] / "model_ema.npz")
        bad = tmp_path / "model.npz"
        _write_checkpoint(bad, arrays, _corrupt(arrays, meta, defect))
        if defect.endswith("_bad_crc"):
            _flip_stored_byte(bad, "meta.json" if defect == "meta_bad_crc" else "params/embed.word.npy")
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        assert words in report["message"]

    def test_flipped_byte_in_a_saved_checkpoint(self, pipeline, capsys, tmp_path):
        """`ParamStore.save` stores its members, so a damaged byte reaches
        the reader's CRC check as it lies in the file."""
        bad = tmp_path / "model.npz"
        bad.write_bytes((pipeline[3] / "model.npz").read_bytes())
        _flip_stored_byte(bad, "params/dec.w_out.npy")
        report = self._generate(capsys, pipeline, bad)
        assert report["error"] == "CheckpointError"
        assert "params/dec.w_out.npy that is damaged" in report["message"]


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

    def test_unknown_set_key_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        main(["make-toy-data", "--n", "2", "--seed", "0", "--out", str(data)])
        code, _, err = run_cli(capsys, "ingest", "--data", str(data), "--set", "bogus=1")
        assert code == 1
        assert "bogus" in err
