"""Command-line entry point binding all modules.

Every subcommand but rouge resolves its configuration from defaults, then an
optional JSON config file (--config), then explicit flags — flags win. The
defaults are those of the owning code: TrainConfig and PipelineConfig fields
for train, extract and eval, synth_corpus's keywords for synth, and
grad_check's epsilon for gradcheck; only the keys no library code owns
(split sizes, objective lists, gradcheck's points and seed) are set here.
Each key's flag is the key with dashes (the boolean locator_use_spans is
--locator-use-spans/--no-locator-use-spans) and parses as its default's type;
a config-file value must have the default's JSON type: an integer, a number,
true/false, a string, or a list of integers for hidden_dims. eval trains each
requested objective through the same objective dispatch as train (_train),
the re-ranker with the stage-1 settings and on a pairwise stage 1 that it
rates as well, then rates the models with evaluation.run_comparison. Every
eval forks one child process (_run_beside) that trains the requested stage-1
rows while the requested baselines, the longer chain, train in this process;
every model is a pure function of (corpus, config, seed) and returns with its
bits intact, so the report's bytes do not depend on it. This module is the
only one that starts a process. extract re-ranks exactly when --reranker is
given.

Each run that writes files also writes a manifest.json next to them recording
the command, the resolved configuration with its typed values, the seed, the
toolkit version, and content digests of the input files. A run whose --out-dir
holds another command's manifest.json exits 1 before it writes anything.
Outputs are byte-identical across runs with identical inputs and seeds; only
the manifest timestamp differs. Every file is read as text, digested and
written through fileio, whose atomic_open leaves the previous output, if any,
and no partial one when a command fails part-way. The --out-dir is created by
the first write, after the inputs have loaded and validated, so a run rejected
for its inputs leaves no directory behind; an output path that cannot be
written exits 1. A command prints only after it has written every file, the
manifest last, and a closed stdout exits 1.

Exit codes: 0 success, 1 validation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import logging
import multiprocessing
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import SPLITS, load_corpus, save_corpus
from .errors import UttrankError, ValidationError
from .evaluation import COMPARISON_OBJECTIVES, REFERENCE_ROWS, run_comparison
from .fileio import atomic_open, read_text, sha256, to_devnull, write_text
from .pipeline import PipelineConfig, run_pipeline
from .rouge import rouge_scores
from .scorer import (
    FEATURE_DIM,
    init_model,
    iter_prepared,
    load_model,
    save_model,
    score_utterances,
)
from .synthesis import synth_corpus, synth_splits
from .trainer import (
    OBJECTIVES,
    TrainConfig,
    grad_check,
    make_objective_assembly,
    prepare_corpus,
    train_baseline,
    train_ranker,
    train_reranker,
)

logger = logging.getLogger(__name__)

__all__ = ["dispatch", "main"]


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "input_digests": {str(p): sha256(p) for p in inputs},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_manifest(out_dir: Path, command: str) -> None:
    """Reject an out_dir whose manifest.json another command wrote, as command would replace it."""
    text = read_text(out_dir / "manifest.json", missing_ok=True)
    if text is None:
        return
    try:
        owner = json.loads(text).get("command")
    except (ValueError, RecursionError, AttributeError):  # not a JSON object
        owner = None
    if owner != command:
        raise ValidationError(
            f"--out-dir {out_dir} holds the manifest.json of {owner!r}, which {command!r} "
            "would replace; write to another directory"
        )


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return loaded


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, value, default):
    """value as the type of default; a ValidationError naming key if it has another type.

    A float default also takes an integer, as JSON does not tell 1 from 1.0,
    and rejects nan and infinities, which both float() and Python's json accept.
    """
    kind = type(default)
    if kind is tuple:
        if isinstance(value, (list, tuple)) and all(type(x) is int for x in value):
            return tuple(value)
        expected = "a list of integers"
    elif kind is float and type(value) in (int, float):
        # nan fails every comparison; an integer past the float range has no float.
        if abs(value) <= sys.float_info.max:
            return float(value)
        expected = "a finite number"
    elif type(value) is kind:
        return value
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
    return cls(**{key: resolved[key] for key in _defaults(cls) if key in resolved})


def _defaults(owner, names=()) -> dict:
    """Keyword defaults of a function or config dataclass, all of them or the named ones."""
    params = inspect.signature(owner).parameters.values()
    owned = {p.name: p.default for p in params if p.default is not p.empty}
    return {name: owned[name] for name in names or owned}


def _dims(text: str) -> tuple[int, ...]:
    """--hidden-dims value: comma-separated layer sizes."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _objectives(text: str, known) -> list[str]:
    """The names of a comma-separated objectives value, first occurrence kept; each in known."""
    names = list(dict.fromkeys(o.strip() for o in text.split(",") if o.strip()))
    unknown = [o for o in names if o not in known]
    if not names or unknown:
        raise ValidationError(f"objectives must name objectives among {list(known)}, got {text!r}")
    return names


TRAIN_DEFAULTS = {
    **_defaults(TrainConfig),
    **_defaults(PipelineConfig, ("sample_size", "per_sample_top")),
}


def _train(prepared, config: TrainConfig, pipeline_config: PipelineConfig, stage1=None):
    """The trainer of config.objective run on prepared; stage1 is the frozen ranker for listwise."""
    if config.objective == "pairwise":
        return train_ranker(prepared, config, pipeline_config)
    if config.objective == "listwise":
        return train_reranker(prepared, stage1, config, pipeline_config)
    return train_baseline(prepared, config, pipeline_config)


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, TRAIN_DEFAULTS)
    train_config = _build(TrainConfig, cfg)
    pipeline_config = _build(PipelineConfig, cfg)
    if (train_config.objective == "listwise") != bool(args.stage1_model):
        raise ValidationError(
            "--stage1-model is required with objective 'listwise' and rejected with any other, "
            f"got objective {train_config.objective!r}"
        )
    out = Path(args.out_dir)
    if args.stage1_model and (out / "model.json").resolve() == Path(args.stage1_model).resolve():
        raise ValidationError(
            f"--out-dir {args.out_dir} would overwrite the --stage1-model {args.stage1_model}"
        )
    prepared = prepare_corpus(load_corpus(args.corpus, split="train"))
    stage1 = load_model(args.stage1_model) if args.stage1_model else None
    result = _train(prepared, train_config, pipeline_config, stage1)

    save_model(result.model, out / "model.json")
    with atomic_open(out / "loss_history.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(result.epoch_losses, start=1):
            writer.writerow([epoch, repr(loss)])
    inputs = [path for path in (args.corpus, args.stage1_model) if path]
    _write_manifest(out, "train", cfg, train_config.seed, inputs)
    logger.info("wrote %s", out / "model.json")
    return 0


EXTRACT_DEFAULTS = _defaults(PipelineConfig)


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg = _resolve(args, EXTRACT_DEFAULTS)
    pipeline_config = _build(PipelineConfig, cfg)
    corpus = load_corpus(args.corpus, split="test")
    # Without --reranker the stage-1 model also orders the pool (the ablation).
    checkpoints = [path for path in (args.model, args.reranker) if path]
    models = [load_model(path) for path in checkpoints]
    out = Path(args.out_dir)
    with atomic_open(out / "extractions.jsonl") as fh:
        for instance, features, _ in iter_prepared(corpus):  # extraction needs no gold labels
            scores = [score_utterances(model, features) for model in models]
            result = run_pipeline(instance, scores[0], scores[-1], pipeline_config)
            record = {
                "instance_id": result.instance_id,
                "selected_indices": list(result.selected_indices),
                "selection_scores": list(result.selection_scores),
                "generator_input": result.generator_input,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_manifest(out, "extract", cfg, None, [args.corpus, *checkpoints])
    return 0


EVAL_DEFAULTS = {
    "objectives": ",".join(COMPARISON_OBJECTIVES),
    **_defaults(
        TrainConfig, ("epochs", "learning_rate", "seed", "base_margin", "listwise_k", "hidden_dims")
    ),
    **_defaults(PipelineConfig),
}


def _run_beside(work, beside, name: str):
    """(work(), beside()), with beside run at the same time in one forked child process.

    Fork hands the child this process's memory, so nothing is pickled on the
    way in; beside's result comes back pickled through a one-way pipe, and a
    float64 array keeps its bits. An exception beside raised is raised here;
    a child that dies without sending is a UttrankError naming the process and
    its exit code. The child is terminated when work fails or is interrupted,
    and always joined, so no process outlives the call.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def send_outcome() -> None:  # the child's body; fork needs no picklable target
        try:
            outcome = beside()
        except Exception as exc:  # raised again in the parent
            outcome = exc
        sender.send(outcome)

    child = context.Process(target=send_outcome, name=name)
    child.start()
    sender.close()  # the child's copy is then the only one, so its death reads as EOF
    try:
        result = work()
        try:
            outcome = receiver.recv()
        except EOFError:
            child.join()
            raise UttrankError(
                f"the {name} process exited with code {child.exitcode} before sending its result"
            ) from None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receiver.close()
    if isinstance(outcome, BaseException):
        raise outcome
    return result, outcome


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args, EVAL_DEFAULTS)
    objectives = _objectives(cfg["objectives"], (*COMPARISON_OBJECTIVES, *REFERENCE_ROWS))
    train_config = _build(TrainConfig, cfg)
    pipeline_config = _build(PipelineConfig, cfg)
    train = load_corpus(args.train_corpus, split="train")
    load_corpus(args.validation_corpus, split="validation")  # validated and digested, not read
    test = load_corpus(args.test_corpus, split="test")
    if not test:  # run_comparison rejects it too, but only after all the training
        raise ValidationError(f"{args.test_corpus}: the 'test' split holds no instance")
    prepared = prepare_corpus(train)
    # The re-ranker pools with the pairwise model, so that one is trained too, and first.
    wanted = {*objectives, "pairwise"} if "pairwise+listwise" in objectives else set(objectives)

    def train_rows(chain: dict[str, str]) -> dict:
        """The model of each wanted row of chain, which maps rows to trainer objectives, in order."""
        models = {}
        for name, objective in chain.items():
            if name in wanted:
                config = replace(train_config, objective=objective)
                models[name] = _train(prepared, config, pipeline_config, models.get("pairwise")).model
        return models

    # Two chains that share no model. Stage 1 trains in a forked child
    # meanwhile; the baselines, the longer chain, train here, so that this
    # process computes to the end instead of sleeping on the pipe.
    baselines, models = _run_beside(
        lambda: train_rows({"bce": "bce", "mse": "mse"}),
        lambda: train_rows({"pairwise": "pairwise", "pairwise+listwise": "listwise"}),
        "stage-1 training",
    )
    report = run_comparison(test, {**models, **baselines}, pipeline_config)
    out = Path(args.out_dir)
    write_text(out / "report.json", report.to_json() + "\n")
    write_text(out / "report.txt", report.format_table() + "\n")
    inputs = [args.train_corpus, args.validation_corpus, args.test_corpus]
    _write_manifest(out, "eval", cfg, train_config.seed, inputs)
    print(report.format_table(), flush=True)
    return 0


def _rouge_pairs(args: argparse.Namespace) -> list[tuple[str, str]]:
    if args.pairs and (args.candidate or args.reference):
        raise ValidationError("rouge takes either --pairs or --candidate and --reference, not both")
    if args.pairs:
        pairs = []
        rows = csv.reader(io.StringIO(read_text(args.pairs, newline=""), newline=""), delimiter="\t")
        for row_number, row in enumerate(rows, start=1):
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
        return [(read_text(args.candidate), read_text(args.reference))]
    raise ValidationError("rouge needs either --pairs TSV or both --candidate and --reference")


def _sum_in_order(values) -> float:
    """values added left to right from 0.0; the builtin sum compensates floats from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


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
            part: _sum_in_order(r[name][part] for r in rows) / len(rows)
            for part in ("precision", "recall", "f1")
        }
        for name in ("rouge1", "rouge2", "rougeL")
    }
    payload = json.dumps({"pairs": rows, "mean": mean}, indent=2, sort_keys=True)
    if args.out_dir:
        out = Path(args.out_dir)
        write_text(out / "rouge.json", payload + "\n")
        inputs = [p for p in (args.pairs, args.candidate, args.reference) if p]
        _write_manifest(out, "rouge", {}, None, inputs)
    print(payload, flush=True)
    return 0


GRADCHECK_DEFAULTS = {
    "objectives": ",".join(OBJECTIVES),
    "points": 50,
    "seed": 0,
    "epsilon": _defaults(grad_check)["epsilon"],
    **_defaults(TrainConfig, ("hidden_dims",)),
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
    config = _build(TrainConfig, cfg)  # checks seed and hidden_dims
    objectives = _objectives(cfg["objectives"], OBJECTIVES)
    rng = np.random.default_rng(config.seed)
    dims = (FEATURE_DIM, *config.hidden_dims, 1)
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
    if args.out_dir:
        out = Path(args.out_dir)
        write_text(out / "gradcheck.json", payload + "\n")
        _write_manifest(out, "gradcheck", cfg, cfg["seed"], [])
    print(payload, flush=True)
    return 0 if all_passed else 1


# synth_corpus's keyword defaults but split: synth writes every split.
_SYNTH_KEYWORDS = {k: v for k, v in _defaults(synth_corpus).items() if k != "split"}
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
    n_train = cfg["instances"]
    if n_train < 1:
        raise ValidationError(f"instances must be >= 1, got {n_train}")
    for key in ("validation_instances", "test_instances"):
        if cfg[key] < 0:
            raise ValidationError(f"{key} must be >= 0, got {cfg[key]}")
    n_validation = cfg["validation_instances"] or max(1, n_train // 10)
    n_test = cfg["test_instances"] or max(1, n_train // 4)
    keywords = {k: cfg[k] for k in _SYNTH_KEYWORDS}
    splits = synth_splits(n_train, n_validation, n_test, n_utterances=cfg["utterances"], **keywords)
    out = Path(args.out_dir)
    for split in SPLITS:
        save_corpus(splits[split], out / f"{split}.jsonl")
    resolved = dict(cfg, validation_instances=n_validation, test_instances=n_test)
    _write_manifest(out, "synth", resolved, cfg["seed"], [])
    return 0


# Help texts of the flags that need more than their name.
_HELP = {
    "--stage1-model": "frozen stage-1 checkpoint (listwise only)",
    "--reranker": "re-ranker checkpoint; omit to disable re-ranking",
    "--hidden-dims": "comma-separated hidden layer sizes",
    "--objectives": "comma-separated objective names",
    "--instances": "train split size",
    "--segment-len": "utterances per speaker block",
    "--offtopic-cap": "relevance ceiling off the queried speakers",
}


def _add_command(sub, name: str, help: str, func, paths: dict, defaults: dict) -> None:
    """A subcommand with its path flags, --config, and one flag per key of defaults.

    paths maps each path or model flag to whether it is required. A key's flag
    is --key-with-dashes and parses as the type of its default: a bool is a
    --key/--no-key pair, a tuple is comma-separated integers.
    """
    parser = sub.add_parser(name, help=help)
    for flag, required in paths.items():
        parser.add_argument(flag, required=required, help=_HELP.get(flag))
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        kind = type(default)
        if kind is bool:
            parse = {"action": argparse.BooleanOptionalAction}
        else:
            parse = {"type": _dims if kind is tuple else kind}
        parser.add_argument(flag, help=_HELP.get(flag), **parse)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uttrank",
        description="Utterance ranking and extraction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(
        sub, "train", "train a scoring model", _cmd_train,
        {"--corpus": True, "--out-dir": True, "--stage1-model": False}, TRAIN_DEFAULTS,
    )
    _add_command(
        sub, "extract", "run the extraction pipeline", _cmd_extract,
        {"--corpus": True, "--model": True, "--reranker": False, "--out-dir": True},
        EXTRACT_DEFAULTS,
    )
    _add_command(
        sub, "eval", "train and compare extraction objectives", _cmd_eval,
        dict.fromkeys(("--train-corpus", "--validation-corpus", "--test-corpus", "--out-dir"), True),
        EVAL_DEFAULTS,
    )

    rouge = sub.add_parser("rouge", help="score candidate/reference text pairs")
    rouge.add_argument("--pairs", help="two-column TSV of candidate<TAB>reference")
    rouge.add_argument("--candidate", help="candidate text file")
    rouge.add_argument("--reference", help="reference text file")
    rouge.add_argument("--out-dir")
    rouge.set_defaults(func=_cmd_rouge)

    _add_command(
        sub, "gradcheck", "finite-difference gradient check", _cmd_gradcheck,
        {"--out-dir": False}, GRADCHECK_DEFAULTS,
    )
    _add_command(
        sub, "synth", "generate a planted-order synthetic corpus", _cmd_synth,
        {"--out-dir": True}, SYNTH_DEFAULTS,
    )
    return parser


def dispatch(argv) -> int:
    level = os.environ.get("UTTRANK_LOG_LEVEL", "WARNING")
    names = list(logging.getLevelNamesMapping())
    if level.upper() not in names:
        print(f"error: UTTRANK_LOG_LEVEL must be one of {names}, got {level!r}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=level.upper(),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out_dir", None):
            _check_manifest(Path(args.out_dir), args.command)
        return args.func(args)
    except UttrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:  # stdout closed: fileio reports its own write failures
        to_devnull(sys.stdout)  # what print left buffered would fail again at exit
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
