"""Command-line entry point binding all modules.

Every subcommand but rouge resolves its configuration from defaults, then an
optional JSON config file (--config), then explicit flags — flags win. The
defaults are those of the owning code: TrainConfig and PipelineConfig fields
for train, extract and eval, synth_corpus's keywords for synth, and
grad_check's epsilon for gradcheck; only the keys no library code owns
(split sizes, objective lists, gradcheck's points and seed) are set here.
A config-file key is the flag's destination name (--use-spans is
locator_use_spans) and its value must have the default's JSON type: an
integer, a number, true/false, a string, or a list of integers for
hidden_dims. eval trains its re-ranker with the stage-1 settings, and
extract re-ranks exactly when --reranker is given.

Each run that writes files also writes a manifest.json next to them recording
the command, the resolved configuration with its typed values, the seed, the
toolkit version, and content digests of the input files. Outputs are
byte-identical across runs with identical inputs and seeds; only the manifest
timestamp differs. Every output file is written through fileio.atomic_open, so
a command that fails part-way leaves the previous file, if any, and no partial
one.

Exit codes: 0 success, 1 validation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import SPLITS, load_corpus, save_corpus
from .errors import UttrankError, ValidationError
from .evaluation import COMPARISON_OBJECTIVES, run_comparison
from .fileio import atomic_open
from .pipeline import PipelineConfig, run_pipeline
from .rouge import rouge_scores
from .scorer import FEATURE_DIM, init_model, load_model, save_model
from .synthesis import synth_corpus, synth_splits
from .trainer import (
    OBJECTIVES,
    TrainConfig,
    grad_check,
    make_objective_assembly,
    train_baseline,
    train_ranker,
    train_reranker,
)

logger = logging.getLogger(__name__)

__all__ = ["RunManifest", "dispatch", "main"]


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    seed: int | None
    version: str
    input_digests: dict
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs) -> None:
    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        version=__version__,
        input_digests={str(p): _sha256(Path(p)) for p in inputs},
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    _write_text(out_dir / "manifest.json", manifest.to_json() + "\n")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return loaded


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, value, default):
    """value as the type of default; a ValidationError naming key if it has another type.

    A float default also takes an integer, as JSON does not tell 1 from 1.0.
    """
    kind = type(default)
    if kind is tuple:
        if isinstance(value, (list, tuple)) and all(type(x) is int for x in value):
            return tuple(value)
        expected = "a list of integers"
    elif type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    else:
        expected = _TYPE_NAMES[kind]
    raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags (flags win), typed like the defaults."""
    file_cfg = _load_config_file(args.config)
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        value = flag if flag is not None else file_cfg.get(key, default)
        resolved[key] = _typed(key, value, default)
    return resolved


def _build(cls, resolved: dict):
    """A config dataclass from the resolved values of its fields; others keep their defaults."""
    return cls(**{f.name: resolved[f.name] for f in fields(cls) if f.name in resolved})


def _field_defaults(cls, names=None) -> dict:
    """Defaults of a config dataclass's fields, all of them or the named ones."""
    owned = {f.name: f.default for f in fields(cls)}
    return {name: owned[name] for name in names or owned}


def _keyword_defaults(fn) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty
    }


def _dims(text: str) -> tuple[int, ...]:
    """--hidden-dims value: comma-separated layer sizes."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


TRAIN_DEFAULTS = {
    **_field_defaults(TrainConfig),
    **_field_defaults(PipelineConfig, ("sample_size", "per_sample_top")),
}


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, TRAIN_DEFAULTS)
    train_config = _build(TrainConfig, cfg)
    pipeline_config = _build(PipelineConfig, cfg)
    out = _out_dir(args.out_dir)
    corpus = load_corpus(args.corpus, split="train")
    inputs = [args.corpus]
    if train_config.objective == "pairwise":
        result = train_ranker(corpus, train_config, pipeline_config)
    elif train_config.objective == "listwise":
        if not args.stage1_model:
            raise ValidationError("objective 'listwise' requires --stage1-model")
        stage1 = load_model(args.stage1_model)
        inputs.append(args.stage1_model)
        result = train_reranker(corpus, stage1, train_config, pipeline_config)
    else:
        result = train_baseline(corpus, train_config, pipeline_config)

    save_model(result.model, out / "model.json")
    with atomic_open(out / "loss_history.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(result.epoch_losses, start=1):
            writer.writerow([epoch, repr(loss)])
    _write_manifest(out, "train", cfg, train_config.seed, inputs)
    logger.info("wrote %s", out / "model.json")
    return 0


EXTRACT_DEFAULTS = _field_defaults(PipelineConfig)


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg = _resolve(args, EXTRACT_DEFAULTS)
    pipeline_config = _build(PipelineConfig, cfg)
    out = _out_dir(args.out_dir)
    corpus = load_corpus(args.corpus, split="test")
    model = load_model(args.model)
    reranker = load_model(args.reranker) if args.reranker else None
    with atomic_open(out / "extractions.jsonl") as fh:
        for instance in corpus:
            result = run_pipeline(instance, model, reranker, pipeline_config)
            record = {
                "instance_id": result.instance_id,
                "selected_indices": list(result.selected_indices),
                "selection_scores": list(result.selection_scores),
                "generator_input": result.generator_input,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    inputs = [args.corpus, args.model] + ([args.reranker] if args.reranker else [])
    _write_manifest(out, "extract", cfg, None, inputs)
    return 0


EVAL_DEFAULTS = {
    "objectives": ",".join(COMPARISON_OBJECTIVES),
    **_field_defaults(
        TrainConfig, ("epochs", "learning_rate", "seed", "base_margin", "listwise_k", "hidden_dims")
    ),
    **_field_defaults(PipelineConfig),
}


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args, EVAL_DEFAULTS)
    train_config = _build(TrainConfig, cfg)
    pipeline_config = _build(PipelineConfig, cfg)
    out = _out_dir(args.out_dir)
    corpora = {
        "train": load_corpus(args.train_corpus, split="train"),
        "validation": load_corpus(args.validation_corpus, split="validation"),
        "test": load_corpus(args.test_corpus, split="test"),
    }
    objectives = [o.strip() for o in cfg["objectives"].split(",") if o.strip()]
    report = run_comparison(
        corpora,
        objectives=objectives,
        train_config=train_config,
        pipeline_config=pipeline_config,
    )
    _write_text(out / "report.json", report.to_json() + "\n")
    _write_text(out / "report.txt", report.format_table() + "\n")
    print(report.format_table())
    inputs = [args.train_corpus, args.validation_corpus, args.test_corpus]
    _write_manifest(out, "eval", cfg, train_config.seed, inputs)
    return 0


def _rouge_pairs(args: argparse.Namespace) -> list[tuple[str, str]]:
    if args.pairs:
        pairs = []
        with open(args.pairs, encoding="utf-8", newline="") as fh:
            for row_number, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValidationError(
                        f"{args.pairs}:{row_number}: expected 2 tab-separated columns, got {len(row)}"
                    )
                pairs.append((row[0], row[1]))
        if not pairs:
            raise ValidationError(f"{args.pairs}: no candidate/reference pairs found")
        return pairs
    if args.candidate and args.reference:
        candidate = Path(args.candidate).read_text(encoding="utf-8")
        reference = Path(args.reference).read_text(encoding="utf-8")
        return [(candidate, reference)]
    raise ValidationError("rouge needs either --pairs TSV or both --candidate and --reference")


def _cmd_rouge(args: argparse.Namespace) -> int:
    pairs = _rouge_pairs(args)
    rows = []
    for candidate, reference in pairs:
        scores = zip(("rouge1", "rouge2", "rougeL"), rouge_scores([candidate], reference)[0])
        rows.append(
            {name: {"precision": s.precision, "recall": s.recall, "f1": s.f1} for name, s in scores}
        )
    mean = {
        name: {
            part: sum(r[name][part] for r in rows) / len(rows)
            for part in ("precision", "recall", "f1")
        }
        for name in ("rouge1", "rouge2", "rougeL")
    }
    payload = json.dumps({"pairs": rows, "mean": mean}, indent=2, sort_keys=True)
    print(payload)
    if args.out_dir:
        out = _out_dir(args.out_dir)
        _write_text(out / "rouge.json", payload + "\n")
        inputs = [p for p in (args.pairs, args.candidate, args.reference) if p]
        _write_manifest(out, "rouge", {}, None, inputs)
    return 0


GRADCHECK_DEFAULTS = {
    "objectives": ",".join(OBJECTIVES),
    "points": 50,
    "seed": 0,
    "epsilon": _keyword_defaults(grad_check)["epsilon"],
    **_field_defaults(TrainConfig, ("hidden_dims",)),
}


def _random_assembly(objective: str, rng: np.random.Generator):
    n = int(rng.integers(4, 9))
    features = rng.uniform(0.0, 1.0, size=(n, FEATURE_DIM))
    if objective == "bce":
        targets = rng.integers(0, 2, size=n).astype(float)
    else:
        targets = rng.uniform(0.0, 1.0, size=n)
    return make_objective_assembly(objective, features, targets, listwise_k=min(3, n))


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _resolve(args, GRADCHECK_DEFAULTS)
    if cfg["points"] < 1:
        raise ValidationError(f"points must be >= 1, got {cfg['points']}")
    objectives = [o.strip() for o in cfg["objectives"].split(",") if o.strip()]
    unknown = [o for o in objectives if o not in OBJECTIVES]
    if unknown:
        raise ValidationError(f"unknown objectives {unknown}, expected among {list(OBJECTIVES)}")
    rng = np.random.default_rng(cfg["seed"])
    dims = (FEATURE_DIM, *cfg["hidden_dims"], 1)
    results = {}
    all_passed = True
    for objective in objectives:
        worst, passed = 0.0, True
        for _ in range(cfg["points"]):
            model = init_model(dims, seed=int(rng.integers(0, 2**31)))
            assembly = _random_assembly(objective, rng)
            report = grad_check(assembly, model, epsilon=cfg["epsilon"])
            worst = max(worst, report.max_relative_error)
            passed &= report.passed
        all_passed &= passed
        results[objective] = {"max_relative_error": worst, "passed": passed}
    payload = json.dumps(results, indent=2, sort_keys=True)
    print(payload)
    if args.out_dir:
        out = _out_dir(args.out_dir)
        _write_text(out / "gradcheck.json", payload + "\n")
        _write_manifest(out, "gradcheck", cfg, cfg["seed"], [])
    return 0 if all_passed else 1


# synth_corpus's keyword defaults but split: synth writes every split.
_SYNTH_KEYWORDS = {k: v for k, v in _keyword_defaults(synth_corpus).items() if k != "split"}
SYNTH_DEFAULTS = {
    # Split sizes are the only keys without an owner; a validation or test
    # size of 0 means a tenth or a quarter of the train size.
    "instances": 200,
    "validation_instances": 0,
    "test_instances": 0,
    "utterances": _SYNTH_KEYWORDS.pop("n_utterances"),  # set by --utterances
    **_SYNTH_KEYWORDS,
}


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args, SYNTH_DEFAULTS)
    out = _out_dir(args.out_dir)
    n_train = cfg["instances"]
    n_validation = cfg["validation_instances"] or max(1, n_train // 10)
    n_test = cfg["test_instances"] or max(1, n_train // 4)
    keywords = {k: cfg[k] for k in _SYNTH_KEYWORDS}
    splits = synth_splits(n_train, n_validation, n_test, n_utterances=cfg["utterances"], **keywords)
    for split in SPLITS:
        save_corpus(splits[split], out / f"{split}.jsonl")
    resolved = dict(cfg, validation_instances=n_validation, test_instances=n_test)
    _write_manifest(out, "synth", resolved, cfg["seed"], [])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uttrank",
        description="Utterance ranking and extraction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a scoring model")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out-dir", required=True)
    train.add_argument("--config", help="JSON config file; explicit flags win")
    train.add_argument("--objective", choices=OBJECTIVES)
    train.add_argument("--epochs", type=int)
    train.add_argument("--learning-rate", type=float)
    train.add_argument("--seed", type=int)
    train.add_argument("--base-margin", type=float)
    train.add_argument("--listwise-k", type=int)
    train.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=None)
    train.add_argument("--hidden-dims", type=_dims, help="comma-separated hidden layer sizes")
    train.add_argument("--locator-positives", type=int)
    train.add_argument(
        "--use-spans",
        dest="locator_use_spans",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    train.add_argument("--sample-size", type=int)
    train.add_argument("--per-sample-top", type=int)
    train.add_argument("--stage1-model", help="frozen stage-1 checkpoint (listwise only)")
    train.set_defaults(func=_cmd_train)

    extract = sub.add_parser("extract", help="run the extraction pipeline")
    extract.add_argument("--corpus", required=True)
    extract.add_argument("--model", required=True)
    extract.add_argument("--reranker", help="re-ranker checkpoint; omit to disable re-ranking")
    extract.add_argument("--out-dir", required=True)
    extract.add_argument("--config")
    extract.add_argument("--sample-size", type=int)
    extract.add_argument("--per-sample-top", type=int)
    extract.add_argument("--top-k", type=int)
    extract.add_argument("--token-budget", type=int)
    extract.set_defaults(func=_cmd_extract)

    evaluate = sub.add_parser("eval", help="train and compare extraction objectives")
    evaluate.add_argument("--train-corpus", required=True)
    evaluate.add_argument("--validation-corpus", required=True)
    evaluate.add_argument("--test-corpus", required=True)
    evaluate.add_argument("--out-dir", required=True)
    evaluate.add_argument("--config")
    evaluate.add_argument("--objectives", help="comma-separated comparison rows")
    evaluate.add_argument("--epochs", type=int)
    evaluate.add_argument("--learning-rate", type=float)
    evaluate.add_argument("--seed", type=int)
    evaluate.add_argument("--base-margin", type=float)
    evaluate.add_argument("--listwise-k", type=int)
    evaluate.add_argument("--hidden-dims", type=_dims)
    evaluate.add_argument("--sample-size", type=int)
    evaluate.add_argument("--per-sample-top", type=int)
    evaluate.add_argument("--top-k", type=int)
    evaluate.add_argument("--token-budget", type=int)
    evaluate.set_defaults(func=_cmd_eval)

    rouge = sub.add_parser("rouge", help="score candidate/reference text pairs")
    rouge.add_argument("--pairs", help="two-column TSV of candidate<TAB>reference")
    rouge.add_argument("--candidate", help="candidate text file")
    rouge.add_argument("--reference", help="reference text file")
    rouge.add_argument("--out-dir")
    rouge.set_defaults(func=_cmd_rouge)

    gradcheck = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gradcheck.add_argument("--config")
    gradcheck.add_argument("--objectives", help="comma-separated loss names")
    gradcheck.add_argument("--points", type=int)
    gradcheck.add_argument("--seed", type=int)
    gradcheck.add_argument("--epsilon", type=float)
    gradcheck.add_argument("--hidden-dims", type=_dims)
    gradcheck.add_argument("--out-dir")
    gradcheck.set_defaults(func=_cmd_gradcheck)

    synth = sub.add_parser("synth", help="generate a planted-order synthetic corpus")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--config")
    synth.add_argument("--instances", type=int, help="train split size")
    synth.add_argument("--validation-instances", type=int)
    synth.add_argument("--test-instances", type=int)
    synth.add_argument("--utterances", type=int)
    synth.add_argument("--noise", type=float)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--summary-words", type=int)
    synth.add_argument("--query-words", type=int)
    synth.add_argument("--min-tokens", type=int)
    synth.add_argument("--max-tokens", type=int)
    synth.add_argument("--segment-len", type=int, help="utterances per speaker block")
    synth.add_argument("--offtopic-cap", type=float, help="relevance ceiling off the queried speakers")
    synth.set_defaults(func=_cmd_synth)

    return parser


def dispatch(argv) -> int:
    logging.basicConfig(
        level=os.environ.get("UTTRANK_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UttrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
