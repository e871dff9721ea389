"""The file system edge: corpus JSONL round-trips, atomic replacement of run
outputs, and no file-system call in the package outside fileio."""

import ast
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uttrank
from uttrank.corpus import Corpus, QueryInstance, Utterance, load_corpus, save_corpus
from uttrank.errors import ValidationError
from uttrank.fileio import atomic_open
from uttrank.scorer import init_model, load_model, save_model

# Any text around at least one alphanumeric run, so every field validates.
_word = st.text(alphabet=string.ascii_letters + string.digits + "éßж", min_size=1, max_size=8)
_text = st.builds(
    lambda pre, word, post: pre + word + post, st.text(max_size=12), _word, st.text(max_size=12)
)


@st.composite
def _instances(draw, instance_id):
    meeting_id = draw(st.text(max_size=6))
    texts = draw(st.lists(_text, min_size=1, max_size=6))
    n = len(texts)
    span = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    return QueryInstance(
        instance_id=instance_id,
        meeting_id=meeting_id,
        query=draw(_text),
        utterances=tuple(
            Utterance(meeting_id=meeting_id, index=i, speaker=draw(st.text(max_size=6)), text=t)
            for i, t in enumerate(texts)
        ),
        gold_summary=draw(_text),
        relevant_spans=draw(st.none() | st.lists(span, max_size=3).map(tuple)),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_instances=st.integers(0, 4))
def test_save_load_corpus_roundtrips(tmp_path_factory, data, n_instances):
    corpus = Corpus(
        instances=tuple(data.draw(_instances(f"inst-{i}")) for i in range(n_instances)),
        split="validation",
    )
    path = tmp_path_factory.mktemp("corpus") / "split.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path, split="validation") == corpus


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as fh:
        fh.write("first\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_save_model_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model((7, 3, 1), seed=1), path)
    before = path.read_bytes()
    broken = init_model((7, 3, 1), seed=2)
    broken.seed = object()  # not JSON: save_model fails before anything replaces model.json
    with pytest.raises(TypeError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert load_model(path).seed == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_atomic_open_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with atomic_open(path) as fh:
        fh.write("text\n")
    assert path.read_text(encoding="utf-8") == "text\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("where", ["target-is-a-directory", "parent-is-a-file"])
def test_failed_write_names_the_target_and_leaves_no_temp_file(tmp_path, where):
    blocker = tmp_path / "x"
    if where == "target-is-a-directory":
        blocker.mkdir()  # the open succeeds and os.replace fails
        path = blocker
    else:
        blocker.write_text("a file\n", encoding="utf-8")
        path = blocker / "out.txt"
    with pytest.raises(ValidationError) as info:
        with atomic_open(path) as fh:
            fh.write("text\n")
    assert str(info.value).startswith(f"cannot write {path}: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["x"]


# Calls that touch the file system. Only fileio makes them, but for
# corpus.load_corpus, which decodes its bytes line by line to name the line of
# a byte that is not UTF-8.
_FS_METHODS = {"open", "mkdir", "read_text", "write_text", "read_bytes", "write_bytes"}
_ALLOWED = {("corpus.py", "load_corpus")}


def _touches_files(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute):
        return False
    on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
    return func.attr in _FS_METHODS or (on_os and func.attr in ("replace", "unlink"))


def _file_system_calls(node: ast.AST, function: str = "<module>"):
    """(function, line) of each file-system call under node, by its innermost function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _touches_files(child.func):
            yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _file_system_calls(child, inner)


def test_only_fileio_touches_the_file_system():
    package = Path(uttrank.__file__).resolve().parent
    found = [
        (module.name, function, line)
        for module in sorted(package.glob("*.py"))
        if module.name != "fileio.py"
        for function, line in _file_system_calls(ast.parse(module.read_text(encoding="utf-8")))
    ]
    assert [site for site in found if site[:2] not in _ALLOWED] == []
    assert {site[:2] for site in found} == _ALLOWED  # the scan sees the one call it allows


# Modules that start processes: cli alone, as the one place that owns a run.
_PROCESS_MODULES = ("multiprocessing", "concurrent.futures", "os.fork")


def _process_names(tree: ast.AST):
    """Each imported module or name, and each os attribute, under tree that starts processes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names = [f"os.{node.attr}"]
        else:
            continue
        yield from (name for name in names if name.startswith(_PROCESS_MODULES))


def test_only_cli_starts_processes():
    package = Path(uttrank.__file__).resolve().parent
    found = {
        module.name
        for module in sorted(package.glob("*.py"))
        if any(_process_names(ast.parse(module.read_text(encoding="utf-8"))))
    }
    assert found == {"cli.py"}  # the scan sees the import it allows


# The names of a chunk's layout: scorer builds it and reads its labels from
# rouge, and every other module takes each instance's arrays from
# scorer.iter_prepared.
_CHUNK_NAMES = {"InstanceStats", "TokenGroups", "group_relevances", "chunk_features"}
_LAYOUT_MODULES = ("scorer.py", "rouge.py")


def _chunk_names(tree: ast.AST):
    """Each name of _CHUNK_NAMES that tree imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name in _CHUNK_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in _CHUNK_NAMES:
            yield node.attr


def test_only_scorer_and_rouge_know_the_chunk_layout():
    package = Path(uttrank.__file__).resolve().parent
    found = {
        module.name: sorted(set(_chunk_names(ast.parse(module.read_text(encoding="utf-8")))))
        for module in sorted(package.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names and name not in _LAYOUT_MODULES} == {}
    assert found["scorer.py"] == ["TokenGroups", "group_relevances"]  # the scan sees what it allows


@pytest.mark.parametrize(
    "source",
    ["import multiprocessing", "from multiprocessing import Process", "import concurrent.futures",
     "from concurrent import futures", "from concurrent.futures import ProcessPoolExecutor",
     "pid = os.fork()", "from os import fork"],
)
def test_process_scan_sees_each_spelling(source):
    assert list(_process_names(ast.parse(source)))
