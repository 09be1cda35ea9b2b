"""Pickle-safety rules (PKL3xx).

Everything that crosses the :mod:`repro.crawler.parallel`
multiprocessing boundary — shard jobs, crawl sessions, checkpoint
payloads, shard results — travels by pickle.  Three things break that
silently at fan-out time rather than at definition time, so we catch
them statically:

* **PKL301** lambdas stored in object state (``self.f = lambda ...``,
  class attributes, dataclass defaults) — lambdas don't pickle.
* **PKL302** classes defined inside functions — instances of local
  classes don't pickle (the class can't be re-imported by name).
* **PKL303** live handles stored in object state (``open()`` files,
  sockets, locks, pools, generators) — either unpicklable or, worse,
  picklable-but-dead in the child process.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Tuple, Union

from ..engine import FAMILY_PICKLE, Finding, ModuleContext, Rule

#: Modules whose classes cross the multiprocessing boundary.  The
#: service layer is in scope because job specs (and the heartbeat
#: events they cause) cross the runner/worker process boundary; its
#: parent-side-only handles (conditions, locks, server state) carry
#: explicit inline suppressions.
PICKLE_SCOPE: Tuple[str, ...] = (
    "repro.crawler",
    "repro.obs",
    "repro.service",
)

#: Constructors whose results must never be stored on picklable state.
HANDLE_CALLS = {
    "open": "an open file handle",
    "socket.socket": "a live socket",
    "threading.Lock": "a thread lock",
    "threading.RLock": "a thread lock",
    "threading.Condition": "a thread primitive",
    "threading.Event": "a thread primitive",
    "threading.Thread": "a thread object",
    "multiprocessing.Lock": "a process lock",
    "multiprocessing.Pool": "a process pool",
    "multiprocessing.Queue": "a process queue",
    "sqlite3.connect": "a database connection",
}


class _PickleScopedRule(Rule):
    family = FAMILY_PICKLE

    def __init__(self, scope: Sequence[str] = PICKLE_SCOPE) -> None:
        self.scope = tuple(scope)

    def in_scope(self, ctx: ModuleContext) -> bool:
        return ctx.module_matches(self.scope)


class StoredLambdaRule(_PickleScopedRule):
    id = "PKL301"
    name = "lambda-in-state"
    description = ("no lambdas in picklable state (self.x = lambda, "
                   "class attributes, dataclass defaults) in modules "
                   "crossing the multiprocessing boundary")
    rationale = ("Lambdas pickle by reference to a name they do not "
                 "have; the failure surfaces at fan-out time on a "
                 "worker, far from the definition that caused it.")
    example_bad = "self.key_fn = lambda row: row.url"
    example_good = ("def _row_key(row): return row.url\n"
                    "...\n"
                    "self.key_fn = _row_key")
    fix_hint = "Hoist the lambda to a module-level function."

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for klass in _classes(ctx.tree):
            # Class-level assignments (incl. dataclass field defaults).
            for stmt in klass.body:
                value = _assigned_value(stmt)
                if value is not None and _contains_lambda(value):
                    yield self.finding(
                        ctx, value,
                        "class %s stores a lambda in its state; "
                        "lambdas do not pickle across the "
                        "crawler.parallel worker boundary — use a "
                        "module-level function" % klass.name)
            # self.<attr> = lambda inside methods.
            for method in _methods(klass):
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if not _assigns_to_self(stmt):
                        continue
                    if _contains_lambda(stmt.value):
                        yield self.finding(
                            ctx, stmt,
                            "%s.%s stores a lambda on self; it will "
                            "not survive pickling to a worker process"
                            % (klass.name, method.name))


class LocalClassRule(_PickleScopedRule):
    id = "PKL302"
    name = "local-class"
    description = ("no class definitions inside functions in modules "
                   "crossing the multiprocessing boundary; local "
                   "classes cannot be re-imported by pickle")
    rationale = ("pickle stores instances as (module, qualname) plus "
                 "state; a class defined inside a function cannot be "
                 "re-imported by name in the worker process, so every "
                 "instance fails to unpickle.")
    example_bad = ("def make_job():\n"
                   "    class Job: ...\n"
                   "    return Job()")
    example_good = ("class Job: ...\n"
                    "\n"
                    "def make_job():\n"
                    "    return Job()")
    fix_hint = "Move the class to module level."

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ClassDef):
                    yield self.finding(
                        ctx, inner,
                        "class %s is defined inside %s(); instances "
                        "of local classes cannot cross the "
                        "multiprocessing boundary — define it at "
                        "module level" % (inner.name, node.name))


class UnpicklableHandleRule(_PickleScopedRule):
    id = "PKL303"
    name = "handle-in-state"
    description = ("no live handles (open files, sockets, locks, "
                   "pools, generators) in picklable state in modules "
                   "crossing the multiprocessing boundary")
    rationale = ("A file handle or lock stored on self either refuses "
                 "to pickle or — worse — pickles and arrives dead in "
                 "the child, failing only when first used.")
    example_bad = "self.log = open(path, 'a')"
    example_good = ("self.log_path = path\n"
                    "# open(self.log_path) lazily, in the process "
                    "that writes")
    fix_hint = ("Store the path/config instead of the handle and open "
                "lazily in the worker; for parent-side-only handles, "
                "suppress with a reason saying the object never "
                "crosses the boundary.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for klass in _classes(ctx.tree):
            for method in _methods(klass):
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if not _assigns_to_self(stmt):
                        continue
                    label = self._handle_label(ctx, stmt.value)
                    if label is not None:
                        yield self.finding(
                            ctx, stmt,
                            "%s.%s stores %s on self; it cannot "
                            "cross the crawler.parallel pickle "
                            "boundary — open it lazily in the worker"
                            % (klass.name, method.name, label))

    def _handle_label(self, ctx: ModuleContext,
                      value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if not isinstance(value, ast.Call):
            return None
        qual = ctx.qualname(value.func)
        if qual is None:
            return None
        return HANDLE_CALLS.get(qual)


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------

def _classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _methods(klass: ast.ClassDef,
             ) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    for stmt in klass.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _assigned_value(stmt: ast.stmt) -> Optional[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return stmt.value
    return None


def _assigns_to_self(stmt: ast.Assign) -> bool:
    for target in stmt.targets:
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            return True
    return False


def _contains_lambda(value: ast.expr) -> bool:
    """Is there a lambda anywhere in ``value`` (incl. field defaults)?

    ``field(default_factory=lambda: [])`` is *allowed* — the factory
    runs at construction time and is not part of instance state — so
    lambdas inside a ``field(default_factory=...)`` keyword are skipped.
    """
    if isinstance(value, ast.Call):
        qual_tail = value.func.attr if isinstance(value.func, ast.Attribute) \
            else (value.func.id if isinstance(value.func, ast.Name) else "")
        if qual_tail == "field":
            positional = value.args
        else:
            positional = list(value.args) + \
                [kw.value for kw in value.keywords]
        for arg in positional:
            if _contains_lambda(arg):
                return True
        return False
    for node in ast.walk(value):
        if isinstance(node, ast.Lambda):
            return True
    return False
